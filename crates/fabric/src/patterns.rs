//! Traffic-pattern generators and the analytic all-to-all model.
//!
//! The pairwise patterns produce explicit flow sets for the max-min solver;
//! all-to-all at Frontier scale (37,888² flows) is evaluated analytically
//! from per-link load factors instead, the standard technique for uniform
//! traffic matrices.

use crate::dragonfly::Dragonfly;
use crate::topology::EndpointId;
use frontier_sim_core::prelude::*;

/// A random fixed-point-free pairing of `n` endpoints (the mpiGraph
/// measurement round: every NIC sends to exactly one partner and receives
/// from exactly one).
pub fn mpigraph_pairs(n: usize, rng: &mut StreamRng) -> Vec<(EndpointId, EndpointId)> {
    let mut pairs = Vec::with_capacity(n);
    pairs.extend(
        rng.pairing(n)
            .into_iter()
            .enumerate()
            .map(|(s, d)| (EndpointId(s as u32), EndpointId(d as u32))),
    );
    pairs
}

/// `fan` sources all sending to one destination (incast). Sources are drawn
/// without replacement from `pool`.
pub fn incast_pairs(
    pool: &[EndpointId],
    dst: EndpointId,
    fan: usize,
    rng: &mut StreamRng,
) -> Vec<(EndpointId, EndpointId)> {
    fan_pairs(pool, dst, fan, rng, |s| (s, dst))
}

/// One root sending to `fan` destinations (broadcast leaf traffic).
/// Destinations are drawn without replacement from `pool`.
pub fn broadcast_pairs(
    pool: &[EndpointId],
    root: EndpointId,
    fan: usize,
    rng: &mut StreamRng,
) -> Vec<(EndpointId, EndpointId)> {
    fan_pairs(pool, root, fan, rng, |d| (root, d))
}

/// Draw `fan` members of `pool` other than `hub` without replacement and
/// orient each against the hub with `pair`. A partial Fisher–Yates costs
/// `fan` index draws, not one per pool member; if `hub` is in `pool`, at
/// most `pool.len() − 1` members exist to draw.
fn fan_pairs(
    pool: &[EndpointId],
    hub: EndpointId,
    fan: usize,
    rng: &mut StreamRng,
    pair: impl Fn(EndpointId) -> (EndpointId, EndpointId),
) -> Vec<(EndpointId, EndpointId)> {
    assert!(fan <= pool.len());
    let mut candidates: Vec<EndpointId> = Vec::with_capacity(pool.len());
    candidates.extend(pool.iter().copied().filter(|&e| e != hub));
    let fan = fan.min(candidates.len());
    rng.partial_shuffle(&mut candidates, fan);
    if let Some(m) = metrics::active() {
        m.counter("fabric.patterns.draws").add(fan as u64);
    }
    candidates[..fan].iter().copied().map(pair).collect()
}

/// A ring of pairwise flows over `pool` (each endpoint sends to the next) —
/// an all-to-all sub-round as GPCNeT's congestor uses.
pub fn ring_pairs(pool: &[EndpointId]) -> Vec<(EndpointId, EndpointId)> {
    assert!(pool.len() >= 2);
    let mut pairs = Vec::with_capacity(pool.len());
    pairs.extend((0..pool.len()).map(|i| (pool[i], pool[(i + 1) % pool.len()])));
    pairs
}

/// Result of the analytic uniform all-to-all analysis.
#[derive(Debug, Clone, Copy)]
pub struct AllToAllThroughput {
    /// Sustainable uniform injection rate per endpoint (NIC).
    pub per_endpoint: Bandwidth,
    /// Per node (NICs × per_endpoint).
    pub per_node: Bandwidth,
    /// Which resource binds: true if the global pipes, false if injection.
    pub pipe_bound: bool,
}

/// Sustainable per-endpoint rate of a full-machine uniform all-to-all on a
/// dragonfly, with a fraction `nonminimal_fraction` of traffic detoured
/// through an intermediate group (§4.2.2: under saturating all-to-all,
/// adaptive routing detours nearly everything, halving effective global
/// bandwidth; the paper measures ~30–32 GB/s/node at 8 PPN).
pub fn all_to_all_throughput(df: &Dragonfly, nonminimal_fraction: f64) -> AllToAllThroughput {
    assert!((0.0..=1.0).contains(&nonminimal_fraction));
    let p = df.params();
    let g = p.groups as f64;
    let n = p.total_endpoints() as f64;
    let epg = p.endpoints_per_group() as f64;

    // Fraction of a uniform endpoint's traffic that leaves its group.
    let inter_frac = (n - epg) / (n - 1.0);

    // Per unit of per-endpoint injection rate r = 1:
    // minimal load on one directed pipe: each of the `epg` endpoints of the
    // source group sends epg/(n-1) of its traffic to the destination group.
    let minimal_per_pipe = epg * epg / (n - 1.0) * (1.0 - nonminimal_fraction);
    // Valiant traffic: every inter-group unit crosses two of the g*(g-1)
    // directed pipes chosen uniformly.
    let valiant_per_pipe = n * inter_frac * nonminimal_fraction * 2.0 / (g * (g - 1.0));
    let pipe_load = minimal_per_pipe + valiant_per_pipe;

    let pipe_cap = p.pipe_capacity().as_bytes_per_sec();
    let ep_cap = p.endpoint_rate().as_bytes_per_sec();

    let r_pipe = pipe_cap / pipe_load;
    let r = r_pipe.min(ep_cap);
    AllToAllThroughput {
        per_endpoint: Bandwidth::bytes_per_sec(r),
        per_node: Bandwidth::bytes_per_sec(r * p.nics_per_node as f64),
        pipe_bound: r_pipe < ep_cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::DragonflyParams;

    #[test]
    fn mpigraph_pairs_cover_all_endpoints() {
        let mut rng = StreamRng::from_seed(1);
        let pairs = mpigraph_pairs(64, &mut rng);
        assert_eq!(pairs.len(), 64);
        let mut recv = [false; 64];
        for (s, d) in &pairs {
            assert_ne!(s, d);
            assert!(!recv[d.0 as usize]);
            recv[d.0 as usize] = true;
        }
    }

    /// The fanned-out members of `pairs`, checked distinct and never `hub`.
    fn fan_members(
        pairs: &[(EndpointId, EndpointId)],
        hub: EndpointId,
        member: impl Fn(&(EndpointId, EndpointId)) -> (EndpointId, EndpointId),
    ) -> Vec<EndpointId> {
        let mut members = Vec::with_capacity(pairs.len());
        for p in pairs {
            let (h, m) = member(p);
            assert_eq!(h, hub);
            assert_ne!(m, hub);
            members.push(m);
        }
        members.sort_unstable();
        members.dedup();
        assert_eq!(members.len(), pairs.len(), "a member was drawn twice");
        members
    }

    #[test]
    fn incast_targets_one_destination() {
        let mut rng = StreamRng::from_seed(2);
        let pool: Vec<EndpointId> = (0..20).map(EndpointId).collect();
        let pairs = incast_pairs(&pool, EndpointId(5), 8, &mut rng);
        assert_eq!(pairs.len(), 8);
        fan_members(&pairs, EndpointId(5), |&(s, d)| (d, s));
    }

    #[test]
    fn broadcast_sources_one_root() {
        let mut rng = StreamRng::from_seed(3);
        let pool: Vec<EndpointId> = (0..20).map(EndpointId).collect();
        let pairs = broadcast_pairs(&pool, EndpointId(0), 10, &mut rng);
        assert_eq!(pairs.len(), 10);
        fan_members(&pairs, EndpointId(0), |&p| p);
    }

    #[test]
    fn fans_of_zero_and_of_the_whole_pool() {
        let pool: Vec<EndpointId> = (0..12).map(EndpointId).collect();
        let hub = EndpointId(7);
        let rest: Vec<EndpointId> = pool.iter().copied().filter(|&e| e != hub).collect();
        let mut rng = StreamRng::from_seed(4);
        assert!(incast_pairs(&pool, hub, 0, &mut rng).is_empty());
        assert!(broadcast_pairs(&pool, hub, 0, &mut rng).is_empty());
        let whole = pool.len() - 1;
        let pairs = incast_pairs(&pool, hub, whole, &mut rng);
        assert_eq!(fan_members(&pairs, hub, |&(s, d)| (d, s)), rest);
        let pairs = broadcast_pairs(&pool, hub, whole, &mut rng);
        assert_eq!(fan_members(&pairs, hub, |&p| p), rest);
        // A fan of the whole pool, hub included, has only the rest to draw.
        let pairs = incast_pairs(&pool, hub, pool.len(), &mut rng);
        assert_eq!(fan_members(&pairs, hub, |&(s, d)| (d, s)), rest);
    }

    #[test]
    fn incast_and_broadcast_draw_the_same_members() {
        let pool: Vec<EndpointId> = (0..40).map(EndpointId).collect();
        let hub = EndpointId(9);
        let incast = incast_pairs(&pool, hub, 6, &mut StreamRng::from_seed(5));
        let broadcast = broadcast_pairs(&pool, hub, 6, &mut StreamRng::from_seed(5));
        let flipped: Vec<_> = broadcast.iter().map(|&(r, d)| (d, r)).collect();
        assert_eq!(incast, flipped);
    }

    #[test]
    fn ring_is_a_cycle() {
        let pool: Vec<EndpointId> = (0..5).map(EndpointId).collect();
        let pairs = ring_pairs(&pool);
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[4], (EndpointId(4), EndpointId(0)));
    }

    #[test]
    fn frontier_all_to_all_matches_paper() {
        // §4.2.2: "~30-32 GB/s/node (~7.5-8.0 GB/s/NIC)" for all-to-all at
        // 8 PPN with heavy non-minimal routing.
        let df = Dragonfly::build(DragonflyParams::frontier());
        let t = all_to_all_throughput(&df, 1.0);
        let nic = t.per_endpoint.as_gb_s();
        let node = t.per_node.as_gb_s();
        assert!((6.8..8.5).contains(&nic), "per-NIC {nic}");
        assert!((27.0..34.0).contains(&node), "per-node {node}");
        assert!(t.pipe_bound);
    }

    #[test]
    fn minimal_only_all_to_all_is_faster() {
        let df = Dragonfly::build(DragonflyParams::frontier());
        let nm = all_to_all_throughput(&df, 1.0);
        let min = all_to_all_throughput(&df, 0.0);
        assert!(min.per_endpoint > nm.per_endpoint);
        // Non-minimal halves effective global bandwidth (paper's claim):
        let ratio = min.per_endpoint.as_gb_s() / nm.per_endpoint.as_gb_s();
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn small_machines_are_injection_bound() {
        // A 2-group toy dragonfly has plenty of pipe per endpoint.
        let df = Dragonfly::build(DragonflyParams::scaled(2, 2, 1));
        let t = all_to_all_throughput(&df, 0.0);
        assert!(!t.pipe_bound);
        assert!((t.per_endpoint.as_gb_s() - 17.5).abs() < 1e-6);
    }
}
