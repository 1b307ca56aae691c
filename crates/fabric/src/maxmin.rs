//! Weighted max-min-fair bandwidth allocation by progressive filling.
//!
//! Given a topology and a set of routed flows, the solver raises every
//! active flow's rate at a speed proportional to its weight until a link
//! saturates (freezing the flows crossing it) or a flow reaches its offered
//! demand, and repeats. The result is the classic (weighted) max-min fair
//! allocation: no flow can be raised without lowering a flow of smaller or
//! equal normalized rate.
//!
//! This is the flow-level idealization of per-flow fair queueing, which is
//! what Slingshot's congestion control approximates in hardware. Weights
//! express per-application (VNI) fairness: giving each flow weight
//! `1 / (flows in its VNI)` makes applications — not individual flows —
//! share contended links equally, which is how the congestion-control-ON
//! configuration of the GPCNeT experiment is modelled.
//!
//! # Algorithm
//!
//! Every public entry point delegates to the event-driven engine in
//! [`crate::solver`] (v3): a once-sorted queue of per-link saturation
//! events jumps the water level freeze to freeze (lazily re-keying only
//! touched links), and a union-find decomposition solves independent
//! interference components concurrently. One older generation stays in
//! this module as the oracle:
//!
//! * [`solve_maxmin_reference`] — the straightforward per-round rescan
//!   (v1). The parity property tests pin v3 to it at 1e-9 relative
//!   agreement, cold and warm.

use crate::topology::{Flow, Topology};
use frontier_sim_core::metrics;
use frontier_sim_core::units::Bandwidth;
use std::collections::BTreeMap;

/// Relative tolerance for saturation/demand checks (shared with the
/// event-driven engine so it and the oracle batch ties identically).
pub(crate) const REL_EPS: f64 = 1e-9;

/// Result of a max-min solve.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Allocated rate per flow, bytes/s. The slice is *parallel to the
    /// input flow slice*: `rates[i]` is the rate of `flows[i]` as passed
    /// to the solver.
    pub rates: Vec<f64>,
    /// Progressive-filling rounds used (freeze-event batches for the
    /// event-driven engine; each batch freezes at least one flow, so the
    /// classic `rounds ≤ links + flows + 1` bound holds either way).
    pub rounds: usize,
    /// Interference components the solve decomposed into (flows sharing
    /// no link, directly or transitively, land in different components).
    /// The reference solver does not decompose and reports 1.
    pub components: usize,
}

impl Allocation {
    /// Rate of flow `i`, indexed as in the flow slice the solver was
    /// called with.
    pub fn rate(&self, i: usize) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.rates[i])
    }

    /// Aggregate allocated throughput over all flows of the solve
    /// (zero for an empty flow set).
    pub fn total(&self) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.rates.iter().sum())
    }

    /// Minimum flow rate (the "victim" rate in contention studies).
    /// Returns zero bandwidth for an empty flow set.
    pub fn min_rate(&self) -> Bandwidth {
        let m = self.rates.iter().copied().fold(f64::INFINITY, f64::min);
        Bandwidth::bytes_per_sec(if m.is_finite() { m } else { 0.0 })
    }
}

/// Per-VNI weight table: weight `1 / (flows in the VNI)` makes
/// applications, not individual flows, share contended links equally.
///
/// Building the table once and reusing it across solves avoids both the
/// per-call map construction the solver used to do and the panic the
/// old closure hit when asked to weigh a flow whose VNI it had never
/// counted: unknown VNIs fall back to weight 1.0.
#[derive(Debug, Clone, Default)]
pub struct VniWeights {
    counts: BTreeMap<u32, usize>,
}

impl VniWeights {
    /// Count the flows of each VNI in `flows`.
    pub fn from_flows(flows: &[Flow]) -> Self {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for f in flows {
            *counts.entry(f.vni).or_insert(0) += 1;
        }
        VniWeights { counts }
    }

    /// Number of counted flows in `vni` (zero if never seen).
    pub fn count(&self, vni: u32) -> usize {
        self.counts.get(&vni).copied().unwrap_or(0)
    }

    /// Weight of `flow`: `1 / count(flow.vni)`, or 1.0 for a VNI the
    /// table has not seen (instead of panicking on the missing entry).
    pub fn weight(&self, flow: &Flow) -> f64 {
        match self.counts.get(&flow.vni) {
            Some(&c) if c > 0 => 1.0 / c as f64,
            _ => 1.0,
        }
    }
}

/// Unweighted max-min fairness (every flow weight 1).
pub fn solve_maxmin(topo: &Topology, flows: &[Flow]) -> Allocation {
    solve_maxmin_weighted(topo, flows, |_| 1.0)
}

/// Per-VNI fairness: each application's flow set shares contended links
/// equally with other applications (Slingshot congestion control ON).
pub fn solve_maxmin_per_vni(topo: &Topology, flows: &[Flow]) -> Allocation {
    let vni = VniWeights::from_flows(flows);
    solve_maxmin_weighted(topo, flows, |f| vni.weight(f))
}

/// Weighted progressive filling. `weight` must be strictly positive for
/// every flow. Runs on the event-driven engine ([`crate::solver`]).
pub fn solve_maxmin_weighted<W>(topo: &Topology, flows: &[Flow], weight: W) -> Allocation
where
    W: Fn(&Flow) -> f64,
{
    let weights = collect_weights(flows, weight);
    crate::solver::solve_event_driven(topo, flows, &weights)
}

fn collect_weights<W>(flows: &[Flow], weight: W) -> Vec<f64>
where
    W: Fn(&Flow) -> f64,
{
    flows
        .iter()
        .map(|f| {
            let w = weight(f);
            assert!(w > 0.0 && w.is_finite(), "flow weight must be positive");
            w
        })
        .collect()
}

/// Publish one solve's telemetry: solver progress counters, the
/// rounds-per-solve histogram, the per-link utilization histogram, and
/// how many used links of each [`LinkLevel`](crate::topology::LinkLevel)
/// the solve observed and saturated
/// (`fabric.link.<level>.{observed,saturated}`). Every update is
/// order-independent — counter adds and bucket increments — so snapshots
/// cannot depend on how concurrent solves interleave (see the determinism
/// contract in `frontier_sim_core::metrics`). `used` marks the links some
/// flow crosses.
#[expect(
    clippy::too_many_arguments,
    reason = "one solve's outputs from its single call site; a struct would be built only to be unpacked here"
)]
pub(crate) fn publish_solve_metrics(
    m: &metrics::MetricsRegistry,
    topo: &Topology,
    rounds: usize,
    nf: usize,
    frozen_demand: u64,
    frozen_saturation: u64,
    used: &[bool],
    caps: &[f64],
    avail: &[f64],
) {
    m.counter("fabric.maxmin.solves").inc();
    m.counter("fabric.maxmin.rounds").add(rounds as u64);
    m.counter("fabric.maxmin.flows").add(nf as u64);
    m.counter("fabric.maxmin.frozen_demand").add(frozen_demand);
    m.counter("fabric.maxmin.frozen_saturation")
        .add(frozen_saturation);
    m.histogram("fabric.maxmin.rounds_per_solve", 0.0, 64.0, 16)
        .record(rounds as f64);

    let util_hist = m.histogram("fabric.link.utilization", 0.0, 1.0, 20);
    let mut observed = [0u64; 4];
    let mut saturated = [0u64; 4];
    for l in 0..caps.len() {
        // Only links some flow actually crossed: idle links would swamp
        // the distribution with zeros.
        if !used[l] || caps[l] <= 0.0 {
            continue;
        }
        let util = ((caps[l] - avail[l]) / caps[l]).clamp(0.0, 1.0);
        let lvl = topo.link(crate::topology::LinkId(l as u32)).level as usize;
        observed[lvl] += 1;
        util_hist.record(util);
        if util >= 1.0 - 1e-6 {
            saturated[lvl] += 1;
        }
    }
    // `LinkLevel` declaration order, which `level as usize` indexes.
    for (lvl, name) in ["injection", "ejection", "local", "global"]
        .into_iter()
        .enumerate()
    {
        m.counter(&format!("fabric.link.{name}.observed"))
            .add(observed[lvl]);
        m.counter(&format!("fabric.link.{name}.saturated"))
            .add(saturated[lvl]);
    }
}

/// The straightforward progressive-filling loop (v1): every round
/// rescans all links and all flows, giving
/// O(rounds × (links + flows × |path|)). Kept as the oracle the event-driven
/// engine is pinned to by the `optimized_matches_reference` property test
/// and the `maxmin`/`solver` unit tests.
pub fn solve_maxmin_reference<W>(topo: &Topology, flows: &[Flow], weight: W) -> Allocation
where
    W: Fn(&Flow) -> f64,
{
    let nl = topo.num_links() as usize;
    let nf = flows.len();
    let weights = collect_weights(flows, weight);

    let mut residual: Vec<f64> = topo
        .links()
        .iter()
        .map(|l| l.capacity.as_bytes_per_sec())
        .collect();
    // Sum of active-flow weights per link.
    let mut link_weight = vec![0.0f64; nl];
    for (f, w) in flows.iter().zip(&weights) {
        for l in &f.path {
            link_weight[l.0 as usize] += w;
        }
    }

    let mut rates = vec![0.0f64; nf];
    let mut active: Vec<bool> = flows.iter().map(|f| !f.path.is_empty()).collect();
    let mut n_active = active.iter().filter(|&&a| a).count();
    let mut rounds = 0usize;

    while n_active > 0 {
        rounds += 1;
        assert!(
            rounds <= nl + nf + 1,
            "progressive filling failed to converge"
        );

        // Normalized headroom: how much each unit of weight can still grow.
        let mut delta = f64::INFINITY;
        for l in 0..nl {
            if link_weight[l] > REL_EPS {
                delta = delta.min(residual[l] / link_weight[l]);
            }
        }
        for f in 0..nf {
            if active[f] {
                let d = flows[f].demand.as_bytes_per_sec();
                if d.is_finite() {
                    delta = delta.min((d - rates[f]) / weights[f]);
                }
            }
        }
        assert!(
            delta.is_finite(),
            "no binding constraint: flows without links must have finite demand"
        );
        let delta = delta.max(0.0);

        // Advance all active flows and consume link residuals.
        for f in 0..nf {
            if active[f] {
                rates[f] += delta * weights[f];
            }
        }
        for l in 0..nl {
            if link_weight[l] > REL_EPS {
                residual[l] -= delta * link_weight[l];
            }
        }

        // Freeze flows on saturated links or at demand.
        for f in 0..nf {
            if !active[f] {
                continue;
            }
            let demand = flows[f].demand.as_bytes_per_sec();
            let at_demand = demand.is_finite() && rates[f] >= demand * (1.0 - REL_EPS);
            let on_saturated = flows[f].path.iter().any(|l| {
                let cap = topo.link(*l).capacity.as_bytes_per_sec();
                residual[l.0 as usize] <= cap * REL_EPS
            });
            if at_demand || on_saturated {
                active[f] = false;
                n_active -= 1;
                for l in &flows[f].path {
                    link_weight[l.0 as usize] -= weights[f];
                }
            }
        }
    }

    Allocation {
        rates,
        rounds,
        components: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::{Dragonfly, DragonflyParams};
    use crate::routing::{RoutePolicy, Router};
    use crate::topology::{EndpointId, Flow, LinkLevel, SwitchId};
    use frontier_sim_core::prelude::*;

    /// Two endpoints on one switch, three saturating flows through one
    /// shared 30 GB/s link: each gets 10.
    fn shared_link_setup() -> (Topology, Vec<Flow>) {
        let mut t = Topology::new();
        t.add_switches(2);
        let shared = t.add_link(Bandwidth::gb_s(30.0), LinkLevel::Local);
        let mut flows = vec![];
        for i in 0..3 {
            let s = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(100.0));
            let d = t.add_endpoint(SwitchId(1), Bandwidth::gb_s(100.0));
            let path = vec![t.injection_link(s), shared, t.ejection_link(d)];
            flows.push(Flow::saturating(s, d, path, i));
        }
        (t, flows)
    }

    #[test]
    fn equal_split_on_shared_bottleneck() {
        let (t, flows) = shared_link_setup();
        let a = solve_maxmin(&t, &flows);
        for i in 0..3 {
            assert!((a.rate(i).as_gb_s() - 10.0).abs() < 1e-6, "flow {i}");
        }
    }

    #[test]
    fn demand_limited_flow_frees_capacity() {
        let (t, mut flows) = shared_link_setup();
        flows[0].demand = Bandwidth::gb_s(4.0);
        let a = solve_maxmin(&t, &flows);
        assert!((a.rate(0).as_gb_s() - 4.0).abs() < 1e-6);
        // The other two split the remaining 26 GB/s.
        assert!((a.rate(1).as_gb_s() - 13.0).abs() < 1e-6);
        assert!((a.rate(2).as_gb_s() - 13.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_split_follows_weights() {
        let (t, flows) = shared_link_setup();
        // Weights 1, 2, 3 -> shares 5, 10, 15 of the 30 GB/s link.
        let a = solve_maxmin_weighted(&t, &flows, |f| (f.vni + 1) as f64);
        assert!((a.rate(0).as_gb_s() - 5.0).abs() < 1e-6);
        assert!((a.rate(1).as_gb_s() - 10.0).abs() < 1e-6);
        assert!((a.rate(2).as_gb_s() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn per_vni_fairness_protects_small_apps() {
        // App 0 has one flow, app 1 has four; all share one link.
        let mut t = Topology::new();
        t.add_switches(2);
        let shared = t.add_link(Bandwidth::gb_s(50.0), LinkLevel::Local);
        let mut flows = vec![];
        let mk = |t: &mut Topology, vni: u32, shared| {
            let s = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(1000.0));
            let d = t.add_endpoint(SwitchId(1), Bandwidth::gb_s(1000.0));
            let path = vec![t.injection_link(s), shared, t.ejection_link(d)];
            Flow::saturating(s, d, path, vni)
        };
        flows.push(mk(&mut t, 0, shared));
        for _ in 0..4 {
            flows.push(mk(&mut t, 1, shared));
        }
        // Per-flow fairness: victim gets 10 of 50.
        let per_flow = solve_maxmin(&t, &flows);
        assert!((per_flow.rate(0).as_gb_s() - 10.0).abs() < 1e-6);
        // Per-VNI fairness: victim app gets 25 of 50.
        let per_vni = solve_maxmin_per_vni(&t, &flows);
        assert!((per_vni.rate(0).as_gb_s() - 25.0).abs() < 1e-6);
        for i in 1..5 {
            assert!((per_vni.rate(i).as_gb_s() - 6.25).abs() < 1e-6);
        }
    }

    #[test]
    fn multi_bottleneck_chain() {
        // Classic example: flows A (links 1,2), B (link 1), C (link 2);
        // cap(1) = 10, cap(2) = 30. Max-min: A=5, B=5, C=25.
        let mut t = Topology::new();
        t.add_switches(2);
        let l1 = t.add_link(Bandwidth::gb_s(10.0), LinkLevel::Local);
        let l2 = t.add_link(Bandwidth::gb_s(30.0), LinkLevel::Local);
        let e: Vec<EndpointId> = (0..6)
            .map(|_| t.add_endpoint(SwitchId(0), Bandwidth::gb_s(1e6)))
            .collect();
        let flows = vec![
            Flow::saturating(e[0], e[1], vec![l1, l2], 0),
            Flow::saturating(e[2], e[3], vec![l1], 0),
            Flow::saturating(e[4], e[5], vec![l2], 0),
        ];
        let a = solve_maxmin(&t, &flows);
        assert!((a.rate(0).as_gb_s() - 5.0).abs() < 1e-6);
        assert!((a.rate(1).as_gb_s() - 5.0).abs() < 1e-6);
        assert!((a.rate(2).as_gb_s() - 25.0).abs() < 1e-6);
    }

    #[test]
    fn no_link_overflows() {
        let (t, flows) = shared_link_setup();
        let a = solve_maxmin(&t, &flows);
        let mut load = vec![0.0f64; t.num_links() as usize];
        for (f, r) in flows.iter().zip(&a.rates) {
            for l in &f.path {
                load[l.0 as usize] += r;
            }
        }
        for (i, l) in t.links().iter().enumerate() {
            assert!(
                load[i] <= l.capacity.as_bytes_per_sec() * (1.0 + 1e-6),
                "link {i} overloaded"
            );
        }
    }

    #[test]
    fn empty_path_flow_with_demand_is_satisfied() {
        let mut t = Topology::new();
        t.add_switches(1);
        let e0 = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
        let e1 = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
        // A zero-hop flow (e.g. shared-memory transfer) with finite demand.
        let f = Flow {
            src: e0,
            dst: e1,
            path: vec![],
            demand: Bandwidth::gb_s(3.0),
            vni: 0,
        };
        let a = solve_maxmin(&t, &[f]);
        // No links -> not raised (path empty flows are inactive).
        assert_eq!(a.rates[0], 0.0);
    }

    #[test]
    fn total_is_sum() {
        let (t, flows) = shared_link_setup();
        let a = solve_maxmin(&t, &flows);
        assert!((a.total().as_gb_s() - 30.0).abs() < 1e-6);
        assert!((a.min_rate().as_gb_s() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn empty_flow_set_min_rate_is_zero() {
        let (t, _) = shared_link_setup();
        let a = solve_maxmin(&t, &[]);
        assert_eq!(a.rates.len(), 0);
        assert_eq!(a.rounds, 0);
        assert_eq!(a.min_rate().as_bytes_per_sec(), 0.0);
        assert_eq!(a.total().as_bytes_per_sec(), 0.0);
    }

    #[test]
    fn vni_weights_handle_empty_and_unknown() {
        let empty = VniWeights::from_flows(&[]);
        assert_eq!(empty.count(0), 0);
        let f = Flow::saturating(EndpointId(0), EndpointId(1), vec![], 7);
        // Unknown VNI weighs 1.0 instead of panicking.
        assert_eq!(empty.weight(&f), 1.0);
        // Per-VNI solve of an empty flow set is well-defined.
        let (t, _) = shared_link_setup();
        let a = solve_maxmin_per_vni(&t, &[]);
        assert_eq!(a.min_rate().as_bytes_per_sec(), 0.0);

        let (_, flows) = shared_link_setup();
        let w = VniWeights::from_flows(&flows);
        assert_eq!(w.count(0), 1);
        assert!((w.weight(&flows[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_vni_solve_matches_weight_table_closure() {
        let (t, mut flows) = shared_link_setup();
        flows[1].vni = 0; // two VNIs of sizes 2 and 1
        let vni = VniWeights::from_flows(&flows);
        let a = solve_maxmin_per_vni(&t, &flows);
        let b = solve_maxmin_weighted(&t, &flows, |f| vni.weight(f));
        assert_eq!(a.rates, b.rates);
    }

    /// Random dragonfly flow sets, compared flow-by-flow against the
    /// reference implementation (also covered at larger scale by the
    /// `optimized_matches_reference` property test).
    #[test]
    fn v3_matches_reference_on_random_flow_sets() {
        for seed in 0..40u64 {
            let df = Dragonfly::build(DragonflyParams::scaled(
                2 + (seed % 5) as usize,
                1 + (seed % 4) as usize,
                1 + (seed % 3) as usize,
            ));
            let topo = df.topology();
            let n = df.params().total_endpoints();
            if n < 2 {
                continue;
            }
            let mut rng = StreamRng::from_seed(seed);
            let router = Router::new(&df, RoutePolicy::adaptive_default());
            let nflows = 1 + rng.index(40);
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
                    f.demand = Bandwidth::gb_s(0.5 + 30.0 * rng.uniform());
                }
                flows.push(f);
            }
            let weight = |f: &Flow| 0.5 + f.vni as f64;
            let v3 = solve_maxmin_weighted(topo, &flows, weight);
            let reference = solve_maxmin_reference(topo, &flows, weight);
            for i in 0..flows.len() {
                let (a, b) = (v3.rates[i], reference.rates[i]);
                let scale = 1.0f64.max(a.abs()).max(b.abs());
                assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "seed {seed} flow {i}: {a} vs {b}"
                );
            }
        }
    }

    /// The event-driven engine keeps the progressive-filling convergence
    /// bound: at least one flow freezes per event batch.
    #[test]
    fn rounds_bound_regression() {
        for seed in 0..20u64 {
            let df = Dragonfly::build(DragonflyParams::scaled(6, 4, 4));
            let topo = df.topology();
            let n = df.params().total_endpoints();
            let mut rng = StreamRng::from_seed(1000 + seed);
            let router = Router::new(&df, RoutePolicy::adaptive_default());
            let flows: Vec<Flow> = (0..30)
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
                        i % 3,
                    )
                })
                .collect();
            let a = solve_maxmin(topo, &flows);
            let nl = topo.num_links() as usize;
            assert!(
                a.rounds <= nl + flows.len() + 1,
                "seed {seed}: {} rounds for {} links + {} flows",
                a.rounds,
                nl,
                flows.len()
            );
        }
    }

    /// A single interference component of 4,096 flows on one link, half
    /// demand-limited at 13 distinct levels: many tied freeze events in
    /// one component, which v3 solves serially.
    #[test]
    fn large_single_component_matches_reference() {
        let mut t = Topology::new();
        t.add_switches(2);
        let shared = t.add_link(Bandwidth::gb_s(100.0), LinkLevel::Local);
        let nf = 4096;
        let mut flows = Vec::with_capacity(nf);
        for i in 0..nf {
            let s = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(50.0));
            let d = t.add_endpoint(SwitchId(1), Bandwidth::gb_s(50.0));
            let path = vec![t.injection_link(s), shared, t.ejection_link(d)];
            let mut f = Flow::saturating(s, d, path, (i % 7) as u32);
            if i % 2 == 0 {
                f.demand = Bandwidth::gb_s(0.001 + (i % 13) as f64 * 0.001);
            }
            flows.push(f);
        }
        let v3 = solve_maxmin(&t, &flows);
        assert_eq!(v3.components, 1);
        let reference = solve_maxmin_reference(&t, &flows, |_| 1.0);
        for i in 0..flows.len() {
            let (a, b) = (v3.rates[i], reference.rates[i]);
            let scale = 1.0f64.max(a.abs()).max(b.abs());
            assert!((a - b).abs() <= 1e-9 * scale, "flow {i}: {a} vs {b}");
        }
    }
}
